"""Batched exploration engine: advance N episodes in one lockstep loop.

Every RL exploration steps here: a :class:`~repro.runtime.jobs.
BatchedExplorationJob` runs its seeds as one batch, and
:func:`~repro.runtime.jobs.execute_job` runs a one-seed job as a batch of
one episode.  The serial engine, :class:`~repro.dse.explorer.Explorer`,
steps one episode at a time through dict observations, per-step reward
objects and per-state dict lookups.  With the compiled kernels making
design-point evaluation cheap — and the evaluation store collapsing the
thousands of steps of an episode onto a few hundred distinct design
points — that per-step Python dispatch is what dominated a Table-III
campaign, so it remains only as the reference this engine is tested
against.  This module replaces it with batch stepping over plain lists,
which costs far less per step, even at a batch of one episode, and at a
batch of a few episodes far less than NumPy calls on arrays that small:

* :class:`BatchedAxcDseEnv` holds the state of every episode as lists —
  current design-point *enumeration indices* (the dense state of
  :meth:`~repro.dse.design_space.DesignSpace.point_at`) and cumulative
  rewards — and applies actions through a transition table built once
  per environment (one list of next indices per design point).  A
  context is a table: when the environment is built it fills each
  workload's whole design space with one
  :meth:`~repro.dse.evaluator.Evaluator.evaluate_index_range` call
  (stored points come from the store, the rest run as one stacked kernel
  pass) and calls the environment's reward function once per point; the
  reward, terminate and violation flags land in flat per-cell lists.  A
  reset or a step then makes no evaluator or store call: its outcome is a
  few list lookups.
* :class:`BatchedExplorer` drives a vectorized agent
  (:mod:`repro.agents.vectorized`) through the batched environment in
  lockstep, appending each step's state and action to the episode's trace
  lists.  After the loop it gathers every trace's rewards and flags from
  the outcome lists and hands each episode's columns to its
  :class:`~repro.dse.results.ExplorationResult` as arrays.

Bit-identity contract
---------------------
For every episode seed ``s``, the emitted ``ExplorationResult`` is equal —
column for column, float for float — to what ``Explorer.run(seed=s)``
produces against a fresh ``AxcDseEnv(benchmark, evaluation_seed=s)``.
Each episode keeps its own environment RNG (seeded exactly like
``AxcDseEnv.reset(seed=s)``) and its own agent RNG, and the batch loop
consumes each stream in the serial call order.  Reward functions are pure
(see :class:`~repro.dse.reward.RewardFunction`), so one call per (workload,
point) gives every visit the serial outcome, and cumulative rewards add in
step order, so the float64 traces are IEEE-identical.  The test suite
asserts this per agent per benchmark.

The one observable difference is bookkeeping, not results.  The fill
evaluates every point of a context, visited or not, so a store holds whole
contexts: a cold 300-step run of a 288-point context evaluates all 288
points where the serial engine evaluates the 140 or so it visits, and the
store's size and hit/lookup *statistics* differ from a serial run (every
record the serial run stores is stored, bit for bit).  Canonical report
bytes carry neither, and ``metadata["evaluations"]`` counts the points the
trace itself visited.

One path serves every design space: the largest registered space has 576
points, so filling it costs a few hundredths of a second next to a run's
steps.  A space far larger than its step budget would pay for points the
run never visits.  The fill also moves where a failing unit shows: a unit
that raises :class:`~repro.errors.OperatorError` at any point of the
context raises when the environment is built, even if the agent would
never reach that point.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.dse.design_space import DesignPoint, DesignSpace
from repro.dse.evaluator import EvaluationRecord, Evaluator
from repro.dse.results import NO_ACTION, ExplorationResult
from repro.dse.reward import Algorithm1Reward, RewardFunction
from repro.dse.thresholds import ExplorationThresholds, derive_thresholds
from repro.errors import ConfigurationError, ExplorationError, InvalidAction, ResetNeeded
from repro.gymlite.seeding import np_random
from repro.operators.catalog import OperatorCatalog
from repro.runtime.store import EvaluationStore

__all__ = ["BatchedAxcDseEnv", "BatchedExplorer"]


def _transition_table(space: DesignSpace) -> List[List[int]]:
    """Next-state indices for every (state, directional action), one list per state.

    Column layout matches :meth:`AxcDseEnv._apply_directional`: adder up,
    adder down, multiplier up, multiplier down, then one toggle column per
    variable.  The compact scheme reuses the same columns after drawing its
    direction / variable position per episode.
    """
    num_adders = space.num_adders
    num_multipliers = space.num_multipliers
    num_variables = space.num_variables
    combinations = 1 << num_variables

    index = np.arange(space.size, dtype=np.int64)
    adder, rest = np.divmod(index, num_multipliers * combinations)
    multiplier, mask = np.divmod(rest, combinations)

    def compose(a: np.ndarray, m: np.ndarray, bits: np.ndarray) -> np.ndarray:
        return (a * num_multipliers + m) * combinations + bits

    table = np.empty((space.size, 4 + num_variables), dtype=np.int64)
    table[:, 0] = compose(np.minimum(adder + 1, num_adders - 1), multiplier, mask)
    table[:, 1] = compose(np.maximum(adder - 1, 0), multiplier, mask)
    table[:, 2] = compose(adder, np.minimum(multiplier + 1, num_multipliers - 1), mask)
    table[:, 3] = compose(adder, np.maximum(multiplier - 1, 0), mask)
    for position in range(num_variables):
        bit = 1 << (num_variables - 1 - position)
        table[:, 4 + position] = compose(adder, multiplier, mask ^ bit)
    return table.tolist()


class BatchedAxcDseEnv:
    """Many :class:`~repro.dse.environment.AxcDseEnv` episodes as lists.

    Accepts the same environment settings as :class:`AxcDseEnv`, plus
    ``seeds`` — one workload/exploration seed per episode, used as a
    one-seed :class:`~repro.runtime.jobs.ExplorationJob` uses its seed.
    Episodes sharing a seed share one evaluator (one precise baseline run);
    distinct seeds get their own evaluator, workload and derived thresholds,
    exactly like their serial counterparts.  Construction fills every
    workload's whole context (see the module docstring), so it raises
    where evaluating any point of the space raises.
    """

    def __init__(self, benchmark: Benchmark, seeds: Sequence[int],
                 catalog: Optional[OperatorCatalog] = None,
                 max_cumulative_reward: float = 100.0,
                 reward_function: Optional[RewardFunction] = None,
                 thresholds: Optional[ExplorationThresholds] = None,
                 action_scheme: str = "directional", accuracy_factor: float = 0.4,
                 power_fraction: float = 0.5, time_fraction: float = 0.5,
                 signed_accuracy: bool = False,
                 restrict_to_benchmark_widths: bool = True,
                 store: Optional[EvaluationStore] = None) -> None:
        from repro.dse.environment import ACTION_SCHEMES

        if action_scheme not in ACTION_SCHEMES:
            raise ConfigurationError(
                f"action_scheme must be one of {ACTION_SCHEMES}, got {action_scheme!r}"
            )
        if max_cumulative_reward <= 0:
            raise ConfigurationError(
                f"max_cumulative_reward must be positive, got {max_cumulative_reward}"
            )
        seeds = tuple(int(seed) for seed in seeds)
        if not seeds:
            raise ConfigurationError("a batched environment requires at least one seed")

        self._benchmark = benchmark
        self._seeds = seeds
        self._max_cumulative_reward = float(max_cumulative_reward)
        self._reward_function = reward_function or Algorithm1Reward(
            max_reward=max_cumulative_reward
        )
        self._action_scheme = action_scheme

        # One evaluator per distinct workload seed, in first-occurrence
        # order; the precise baseline run is the expensive part, so
        # duplicate seeds share it.
        eval_id_by_seed: Dict[int, int] = {}
        self._evaluators: List[Evaluator] = []
        eval_ids = []
        for seed in seeds:
            if seed not in eval_id_by_seed:
                eval_id_by_seed[seed] = len(self._evaluators)
                self._evaluators.append(
                    Evaluator(benchmark, catalog, seed=seed,
                              signed_accuracy=signed_accuracy,
                              restrict_to_benchmark_widths=restrict_to_benchmark_widths,
                              store=store)
                )
            eval_ids.append(eval_id_by_seed[seed])
        self._eval_ids = eval_ids
        self._space = self._evaluators[0].design_space
        # Cell offset of each episode's workload in the flat outcome lists.
        self._offsets = [eval_id * self._space.size for eval_id in eval_ids]

        self._thresholds_by_eval: List[ExplorationThresholds] = []
        for evaluator in self._evaluators:
            if thresholds is not None:
                self._thresholds_by_eval.append(thresholds)
            else:
                self._thresholds_by_eval.append(
                    derive_thresholds(
                        evaluator.precise_outputs,
                        evaluator.precise_cost.power_mw,
                        evaluator.precise_cost.time_ns,
                        accuracy_factor=accuracy_factor,
                        power_fraction=power_fraction,
                        time_fraction=time_fraction,
                    )
                )

        self._transitions = _transition_table(self._space)
        self._num_actions = (
            4 + self._space.num_variables if action_scheme == "directional" else 3
        )

        # The context tables: every workload's whole design space, filled
        # once here.  ``_tables[w][i]`` is workload ``w``'s record of design
        # point ``i``; the step outcomes are flat, so workload ``w``'s point
        # ``i`` is cell ``w * size + i``.
        self._tables: List[List[EvaluationRecord]] = []
        self._rewards: List[float] = []
        self._terminate: List[bool] = []
        self._violated: List[bool] = []
        for evaluator, limits in zip(self._evaluators, self._thresholds_by_eval):
            self._fill(evaluator, limits)

        self._rngs: Optional[List[np.random.Generator]] = None
        self._states: Optional[List[int]] = None
        self._cumulative = [0.0] * len(seeds)

    # ------------------------------------------------------------ properties

    @property
    def benchmark(self) -> Benchmark:
        return self._benchmark

    @property
    def seeds(self) -> Tuple[int, ...]:
        return self._seeds

    @property
    def num_episodes(self) -> int:
        return len(self._seeds)

    @property
    def num_actions(self) -> int:
        return self._num_actions

    @property
    def design_space(self) -> DesignSpace:
        return self._space

    @property
    def action_scheme(self) -> str:
        return self._action_scheme

    @property
    def cumulative_rewards(self) -> List[float]:
        """Per-episode accumulated rewards (live view)."""
        return self._cumulative

    def evaluator_for(self, episode: int) -> Evaluator:
        """The evaluator owning the given episode's workload."""
        return self._evaluators[self._eval_ids[episode]]

    def thresholds_for(self, episode: int) -> ExplorationThresholds:
        """The constraint thresholds of the given episode."""
        return self._thresholds_by_eval[self._eval_ids[episode]]

    def table_for(self, episode: int) -> List[EvaluationRecord]:
        """The records of the episode's whole context, by enumeration index.

        The live list the environment steps against; treat it as read-only.
        """
        return self._tables[self._eval_ids[episode]]

    def outcomes_for(self, episode: int,
                     indices: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
        """Rewards and violation flags of visiting ``indices``."""
        cells = [self._offsets[episode] + index for index in indices]
        rewards = self._rewards
        violated = self._violated
        return (np.array([rewards[cell] for cell in cells], dtype=np.float64),
                np.array([violated[cell] for cell in cells], dtype=bool))

    def index_of(self, point: DesignPoint) -> int:
        """The enumeration index of a design point (inverse of ``point_at``)."""
        mask = 0
        num_variables = self._space.num_variables
        for position, flag in enumerate(point.variables):
            if flag:
                mask |= 1 << (num_variables - 1 - position)
        return (
            (point.adder_index - 1) * self._space.num_multipliers
            + (point.multiplier_index - 1)
        ) * (1 << num_variables) + mask

    # --------------------------------------------------------------- stepping

    def reset_batch(self, random_start: bool = False) -> List[int]:
        """Start every episode afresh; returns the starting state indices.

        Episode ``i``'s RNG is re-created from ``seeds[i]`` exactly like
        ``AxcDseEnv.reset(seed=seeds[i])``; every starting point is already
        in its context table.
        """
        self._rngs = [np_random(seed)[0] for seed in self._seeds]
        if random_start:
            starts = [self.index_of(self._space.random_point(rng)) for rng in self._rngs]
        else:
            # The initial point (adder 1, multiplier 1, nothing approximated)
            # enumerates to index 0.
            starts = [0] * len(self._seeds)
        self._cumulative = [0.0] * len(starts)
        self._states = list(starts)
        return starts

    def step_batch(self, actions: Sequence[int],
                   active: Sequence[int]) -> Tuple[List[int], List[float], List[bool]]:
        """Advance the ``active`` episodes by one action each.

        Returns ``(next_indices, rewards, terminated)``, lists aligned with
        ``active``; the violation flags stay in the outcome lists
        (:meth:`outcomes_for`).
        """
        states = self._states
        if states is None:
            raise ResetNeeded("call reset_batch() before step_batch()")
        num_actions = self._num_actions
        if actions and (min(actions) < 0 or max(actions) >= num_actions):
            bad = next(action for action in actions if not 0 <= action < num_actions)
            raise InvalidAction(f"action {int(bad)} is outside Discrete({num_actions})")
        if self._action_scheme == "directional":
            transitions = self._transitions
            next_states = [transitions[states[episode]][action]
                           for episode, action in zip(active, actions)]
        else:
            next_states = self._apply_compact(actions, active)

        offsets = self._offsets
        rewards = self._rewards
        terminate = self._terminate
        cumulative = self._cumulative
        ceiling = self._max_cumulative_reward
        step_rewards = []
        terminated = []
        for episode, state in zip(active, next_states):
            cell = offsets[episode] + state
            reward = rewards[cell]
            total = cumulative[episode] + reward
            cumulative[episode] = total
            states[episode] = state
            step_rewards.append(reward)
            terminated.append(terminate[cell] or total >= ceiling)
        return next_states, step_rewards, terminated

    # ----------------------------------------------------------- transitions

    def _apply_compact(self, actions: Sequence[int], active: Sequence[int]) -> List[int]:
        states = self._states
        transitions = self._transitions
        rngs = self._rngs
        num_variables = self._space.num_variables
        next_states = []
        for episode, action in zip(active, actions):
            rng = rngs[episode]
            row = transitions[states[episode]]
            # The serial compact scheme draws the direction before looking
            # at the action kind, so the draw happens unconditionally here
            # too — stream alignment over correctness micro-optimisation.
            forward = rng.random() < 0.5
            if action == 0:
                next_states.append(row[0] if forward else row[1])
            elif action == 1:
                next_states.append(row[2] if forward else row[3])
            else:
                next_states.append(row[4 + int(rng.integers(0, num_variables))])
        return next_states

    # ------------------------------------------------------------ evaluation

    def _fill(self, evaluator: Evaluator, thresholds: ExplorationThresholds) -> None:
        """Append one workload's whole context to the tables and outcomes.

        One :meth:`~repro.dse.evaluator.Evaluator.evaluate_index_range` call
        serves the stored points from the store and runs the rest as one
        stacked pass; the reward function then runs once per point.
        """
        space = self._space
        records = evaluator.evaluate_index_range(0, space.size)
        reward_function = self._reward_function
        rewards = self._rewards
        terminate = self._terminate
        violated = self._violated
        for record in records:
            outcome = reward_function(record.point, record.deltas, thresholds, space)
            rewards.append(float(outcome.reward))
            terminate.append(bool(outcome.terminate))
            violated.append(bool(outcome.constraint_violated))
        self._tables.append(records)


class BatchedExplorer:
    """Drives a vectorized agent through a batched environment in lockstep.

    Emits one :class:`~repro.dse.results.ExplorationResult` per episode —
    bit-identical to running :class:`~repro.dse.explorer.Explorer` once per
    seed — with episodes that terminate mid-batch simply dropping out of
    the active set while the rest continue.
    """

    def __init__(self, environment: BatchedAxcDseEnv, agent,
                 max_steps: int = 10_000) -> None:
        if max_steps <= 0:
            raise ExplorationError(f"max_steps must be positive, got {max_steps}")
        if getattr(agent, "num_episodes", environment.num_episodes) != environment.num_episodes:
            raise ConfigurationError(
                f"agent drives {agent.num_episodes} episodes but the environment "
                f"holds {environment.num_episodes}"
            )
        self._environment = environment
        self._agent = agent
        self._max_steps = int(max_steps)

    @property
    def environment(self) -> BatchedAxcDseEnv:
        return self._environment

    @property
    def agent(self):
        return self._agent

    @property
    def max_steps(self) -> int:
        return self._max_steps

    def run(self, random_start: bool = False) -> List[ExplorationResult]:
        """Run every episode to termination/budget; results in seed order."""
        environment = self._environment
        agent = self._agent

        starts = environment.reset_batch(random_start=random_start)
        batch = len(starts)
        # Per-episode trace columns; step 0 is the start, reached by no action.
        trace_states = [[start] for start in starts]
        trace_actions = [[NO_ACTION] for _ in starts]
        terminated_flags = [False] * batch
        # Episodes drop out of ``active`` permanently on termination;
        # ``states`` stays aligned with it.
        active = list(range(batch))
        states = list(starts)

        for _ in range(self._max_steps):
            actions = agent.select_actions(active, states)
            next_states, rewards, terminated = environment.step_batch(actions, active)
            agent.update(active, states, actions, rewards, next_states, terminated)

            for episode, state, action in zip(active, next_states, actions):
                trace_states[episode].append(state)
                trace_actions[episode].append(action)
            states = next_states
            if True in terminated:
                survivors = [slot for slot, done in enumerate(terminated) if not done]
                for episode, done in zip(active, terminated):
                    terminated_flags[episode] = done
                active = [active[slot] for slot in survivors]
                states = [states[slot] for slot in survivors]
                if not active:
                    break

        return [
            self._result(episode, trace_states[episode], trace_actions[episode],
                         terminated_flags[episode])
            for episode in range(batch)
        ]

    def _result(self, episode: int, states: List[int], actions: List[int],
                terminated: bool) -> ExplorationResult:
        """One episode's result: its visited points as the table, the rest gathered."""
        environment = self._environment
        visited, first, inverse = np.unique(np.array(states, dtype=np.int64),
                                            return_index=True, return_inverse=True)
        order = np.argsort(first)
        rows = np.empty(order.size, dtype=np.int32)
        rows[order] = np.arange(order.size, dtype=np.int32)
        context = environment.table_for(episode)
        table = [context[index] for index in visited[order].tolist()]
        rewards, violated = environment.outcomes_for(episode, visited.tolist())
        rewards = rewards[inverse]
        violated = violated[inverse]
        # Step 0 is the synthetic baseline: no action led there and it
        # earns nothing.
        rewards[0] = 0.0
        violated[0] = False
        baseline = np.zeros(len(states), dtype=bool)
        baseline[0] = True
        evaluator = environment.evaluator_for(episode)
        return ExplorationResult(
            benchmark_name=evaluator.benchmark.name,
            points=[record.point for record in table],
            deltas=[record.deltas for record in table],
            point_ids=rows[inverse],
            actions=np.array(actions, dtype=np.int8),
            rewards=rewards,
            violated=violated,
            baseline=baseline,
            thresholds=environment.thresholds_for(episode),
            precise_cost=evaluator.precise_cost,
            agent_name=self._agent.name,
            terminated=terminated,
            truncated=False,
            metadata={
                "max_steps": self._max_steps,
                "action_scheme": environment.action_scheme,
                "design_space_size": environment.design_space.size,
                "evaluations": len(table),
            },
        )
