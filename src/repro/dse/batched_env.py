"""Batched exploration engine: advance N episodes per NumPy operation.

:class:`~repro.dse.explorer.Explorer` steps one episode at a time through
dict observations, per-step reward objects and per-state dict lookups.
With the LUT-compiled kernels (PR 4) making design-point evaluation cheap
— and the evaluation store collapsing the thousands of steps of an episode
onto a few hundred distinct design points — that per-step Python dispatch
is what dominates a Table-III campaign.  This module replaces it with
array-at-a-time batch stepping:

* :class:`BatchedAxcDseEnv` holds the state of every episode as arrays —
  current design-point *enumeration indices* (the dense state of
  :meth:`~repro.dse.design_space.DesignSpace.point_at`), cumulative
  rewards, evaluation caches — and applies actions through a precomputed
  ``(space size, num actions)`` transition table.  Design points are
  evaluated once per (workload, point) through
  :meth:`~repro.dse.evaluator.Evaluator.evaluate_many` on the compiled
  fast path and their objective deltas are cached in dense arrays, so the
  steady-state per-step work is pure vectorized gathers.
* :class:`BatchedExplorer` drives a vectorized agent
  (:mod:`repro.agents.vectorized`) through the batched environment in
  lockstep and materialises one :class:`~repro.dse.results.
  ExplorationResult` per episode at the end.

Bit-identity contract
---------------------
For every episode seed ``s``, the emitted ``ExplorationResult`` is equal —
record for record, float for float — to what ``Explorer.run(seed=s)``
produces against a fresh ``AxcDseEnv(benchmark, evaluation_seed=s)``.
Each episode keeps its own environment RNG (seeded exactly like
``AxcDseEnv.reset(seed=s)``) and its own agent RNG, and the batch loop
consumes each stream in the serial call order.  Reward arithmetic,
cumulative-reward accumulation and termination tests are evaluated in the
serial expression order, so the float64 traces are IEEE-identical.  The
test suite asserts this per agent per benchmark.

The one observable difference is bookkeeping, not results: the dense
delta caches serve repeat visits without consulting the shared
:class:`~repro.runtime.store.EvaluationStore`, so store hit/lookup
*statistics* differ from a serial run (the stored records themselves are
identical).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.benchmarks.base import Benchmark
from repro.dse.design_space import DesignPoint, DesignSpace
from repro.dse.evaluator import EvaluationRecord, Evaluator
from repro.dse.results import ExplorationResult, StepRecord
from repro.dse.reward import Algorithm1Reward, RewardFunction
from repro.dse.thresholds import ExplorationThresholds, derive_thresholds
from repro.errors import ConfigurationError, ExplorationError, InvalidAction, ResetNeeded
from repro.gymlite.seeding import np_random
from repro.operators.catalog import OperatorCatalog
from repro.runtime.store import EvaluationStore

__all__ = ["BatchedAxcDseEnv", "BatchedExplorer"]


def _transition_table(space: DesignSpace) -> np.ndarray:
    """Precompute next-state indices for every (state, directional action).

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
    return table


class BatchedAxcDseEnv:
    """Many :class:`~repro.dse.environment.AxcDseEnv` episodes as arrays.

    Accepts the same environment settings as :class:`AxcDseEnv`, plus
    ``seeds`` — one workload/exploration seed per episode, mirroring how
    :func:`~repro.runtime.jobs.execute_job` seeds a serial job.  Episodes
    sharing a seed share one evaluator (one precise baseline run); distinct
    seeds get their own evaluator, workload and derived thresholds, exactly
    like their serial counterparts.
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
        self._eval_ids = np.asarray(eval_ids, dtype=np.int64)
        self._space = self._evaluators[0].design_space

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
        self._thr_accuracy = np.array(
            [self._thresholds_by_eval[e].accuracy for e in eval_ids], dtype=np.float64
        )
        self._thr_power = np.array(
            [self._thresholds_by_eval[e].power_mw for e in eval_ids], dtype=np.float64
        )
        self._thr_time = np.array(
            [self._thresholds_by_eval[e].time_ns for e in eval_ids], dtype=np.float64
        )

        self._transitions = _transition_table(self._space)
        self._num_actions = (
            4 + self._space.num_variables if action_scheme == "directional" else 3
        )

        num_evaluators = len(self._evaluators)
        size = self._space.size
        # Dense per-evaluator objective caches: one row per workload, one
        # column per design point.  ``_known`` gates them; ``_records``
        # keeps the full EvaluationRecord for trace materialisation and
        # custom reward functions.
        self._acc = np.empty((num_evaluators, size), dtype=np.float64)
        self._power = np.empty((num_evaluators, size), dtype=np.float64)
        self._time = np.empty((num_evaluators, size), dtype=np.float64)
        self._known = np.zeros((num_evaluators, size), dtype=bool)
        self._records: List[Dict[int, EvaluationRecord]] = [
            {} for _ in range(num_evaluators)
        ]
        # Enumeration index -> DesignPoint, shared across evaluators (the
        # mapping is workload-independent), so each point is decoded once
        # per environment instead of once per (workload, point).
        self._points: Dict[int, DesignPoint] = {}

        self._rngs: Optional[List[np.random.Generator]] = None
        self._state_idx: Optional[np.ndarray] = None
        self._cumulative = np.zeros(len(seeds), dtype=np.float64)
        # Per-episode visited bitmap over the enumerated space plus a count,
        # replacing per-episode Python sets on the hot path; the count is
        # what the serial evaluator reports as ``cache_size``.
        self._seen = np.zeros((len(seeds), size), dtype=bool)
        self._visit_counts = np.zeros(len(seeds), dtype=np.int64)

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
    def cumulative_rewards(self) -> np.ndarray:
        """Per-episode accumulated rewards (live view)."""
        return self._cumulative

    @property
    def current_indices(self) -> Optional[np.ndarray]:
        """Per-episode current design-point indices (copy), or None before reset."""
        return None if self._state_idx is None else self._state_idx.copy()

    def evaluator_for(self, episode: int) -> Evaluator:
        """The evaluator owning the given episode's workload."""
        return self._evaluators[self._eval_ids[episode]]

    def thresholds_for(self, episode: int) -> ExplorationThresholds:
        """The constraint thresholds of the given episode."""
        return self._thresholds_by_eval[self._eval_ids[episode]]

    def record_for(self, episode: int, index: int) -> EvaluationRecord:
        """The cached evaluation record of one design point of one episode."""
        return self._records[self._eval_ids[episode]][int(index)]

    def records_map_for(self, episode: int) -> Dict[int, EvaluationRecord]:
        """The episode's live index -> record mapping (treat as read-only)."""
        return self._records[self._eval_ids[episode]]

    def evaluations_for(self, episode: int) -> int:
        """Distinct design points the episode has visited (== serial ``cache_size``)."""
        return int(self._visit_counts[episode])

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

    def reset_batch(self, random_start: bool = False) -> np.ndarray:
        """Start every episode afresh; returns the starting state indices.

        Episode ``i``'s RNG is re-created from ``seeds[i]`` exactly like
        ``AxcDseEnv.reset(seed=seeds[i])``, and its starting design point
        is evaluated (a cache/store hit when already known).
        """
        self._rngs = [np_random(seed)[0] for seed in self._seeds]
        batch = len(self._seeds)
        if random_start:
            starts = np.empty(batch, dtype=np.int64)
            for episode, rng in enumerate(self._rngs):
                starts[episode] = self.index_of(self._space.random_point(rng))
        else:
            # The initial point (adder 1, multiplier 1, nothing approximated)
            # enumerates to index 0.
            starts = np.zeros(batch, dtype=np.int64)
        self._ensure_evaluated(starts, self._eval_ids)
        self._seen[:] = False
        self._seen[np.arange(batch), starts] = True
        self._visit_counts[:] = 1
        self._cumulative = np.zeros(batch, dtype=np.float64)
        self._state_idx = starts.copy()
        return starts.copy()

    def step_batch(self, actions: np.ndarray,
                   active: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                np.ndarray, np.ndarray]:
        """Advance the ``active`` episodes by one action each.

        Returns ``(next_indices, rewards, terminated, constraint_violated)``
        aligned with ``active``.
        """
        if self._state_idx is None:
            raise ResetNeeded("call reset_batch() before step_batch()")
        actions = np.asarray(actions, dtype=np.int64)
        next_idx = self._apply_actions(actions, active)
        eval_ids = self._eval_ids[active]
        self._ensure_evaluated(next_idx, eval_ids)
        rewards, terminate, violated = self._compute_rewards(next_idx, active, eval_ids)

        self._cumulative[active] += rewards
        terminated = terminate | (
            self._cumulative[active] >= self._max_cumulative_reward
        )
        self._state_idx[active] = next_idx
        unseen = ~self._seen[active, next_idx]
        if unseen.any():
            first_timers = active[unseen]
            self._seen[first_timers, next_idx[unseen]] = True
            self._visit_counts[first_timers] += 1
        return next_idx, rewards, terminated, violated

    # ----------------------------------------------------------- transitions

    def _apply_actions(self, actions: np.ndarray, active: np.ndarray) -> np.ndarray:
        states = self._state_idx[active]
        if actions.size and (actions.min() < 0 or actions.max() >= self._num_actions):
            bad = actions[(actions < 0) | (actions >= self._num_actions)][0]
            raise InvalidAction(
                f"action {int(bad)} is outside Discrete({self._num_actions})"
            )
        table = self._transitions
        if self._action_scheme == "directional":
            return table[states, actions]

        next_idx = np.empty(active.size, dtype=np.int64)
        num_variables = self._space.num_variables
        rngs = self._rngs
        for slot in range(active.size):
            rng = rngs[active[slot]]
            # The serial compact scheme draws the direction before looking
            # at the action kind, so the draw happens unconditionally here
            # too — stream alignment over correctness micro-optimisation.
            forward = rng.random() < 0.5
            action = actions[slot]
            state = states[slot]
            if action == 0:
                next_idx[slot] = table[state, 0] if forward else table[state, 1]
            elif action == 1:
                next_idx[slot] = table[state, 2] if forward else table[state, 3]
            else:
                position = int(rng.integers(0, num_variables))
                next_idx[slot] = table[state, 4 + position]
        return next_idx

    # ------------------------------------------------------------ evaluation

    def _ensure_evaluated(self, indices: np.ndarray, eval_ids: np.ndarray) -> None:
        known = self._known[eval_ids, indices]
        if known.all():
            return
        pending: Dict[int, List[int]] = {}
        for slot in np.flatnonzero(~known):
            eval_id = int(eval_ids[slot])
            index = int(indices[slot])
            bucket = pending.setdefault(eval_id, [])
            if index not in self._records[eval_id] and index not in bucket:
                bucket.append(index)
        space = self._space
        points_cache = self._points
        for eval_id, bucket in pending.items():
            points = []
            for index in bucket:
                point = points_cache.get(index)
                if point is None:
                    point = space.point_at(index)
                    points_cache[index] = point
                points.append(point)
            records = self._evaluators[eval_id].evaluate_many(points)
            acc, power, time_ = self._acc[eval_id], self._power[eval_id], self._time[eval_id]
            for index, record in zip(bucket, records):
                deltas = record.deltas
                acc[index] = deltas.accuracy
                power[index] = deltas.power_mw
                time_[index] = deltas.time_ns
                self._records[eval_id][index] = record
                self._known[eval_id, index] = True

    # ---------------------------------------------------------------- reward

    def _compute_rewards(self, indices: np.ndarray, active: np.ndarray,
                         eval_ids: np.ndarray) -> Tuple[np.ndarray, np.ndarray,
                                                        np.ndarray]:
        reward_function = self._reward_function
        accuracy = self._acc[eval_ids, indices]
        if type(reward_function) is Algorithm1Reward:
            # Vectorized Algorithm 1: pure threshold comparisons and
            # constant selection — identical branch structure, evaluated
            # for the whole batch at once.
            accuracy_ok = accuracy <= self._thr_accuracy[active]
            most_aggressive = indices == self._space.size - 1
            gains_ok = (
                (self._power[eval_ids, indices] >= self._thr_power[active])
                & (self._time[eval_ids, indices] >= self._thr_time[active])
            )
            rewards = np.where(
                accuracy_ok,
                np.where(
                    most_aggressive,
                    reward_function.max_reward,
                    np.where(gains_ok, reward_function.positive_reward,
                             reward_function.negative_reward),
                ),
                -reward_function.max_reward,
            )
            terminate = accuracy_ok & most_aggressive
            violated = ~accuracy_ok
            return rewards, terminate, violated

        # Custom reward functions fall back to the serial per-episode call.
        rewards = np.empty(active.size, dtype=np.float64)
        terminate = np.empty(active.size, dtype=bool)
        violated = np.empty(active.size, dtype=bool)
        for slot in range(active.size):
            record = self._records[int(eval_ids[slot])][int(indices[slot])]
            outcome = reward_function(
                record.point, record.deltas,
                self._thresholds_by_eval[int(eval_ids[slot])], self._space,
            )
            rewards[slot] = outcome.reward
            terminate[slot] = outcome.terminate
            violated[slot] = outcome.constraint_violated
        return rewards, terminate, violated


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
        max_steps = self._max_steps
        batch = environment.num_episodes

        starts = environment.reset_batch(random_start=random_start)

        trace_states = np.zeros((batch, max_steps + 1), dtype=np.int64)
        trace_actions = np.zeros((batch, max_steps + 1), dtype=np.int64)
        trace_rewards = np.zeros((batch, max_steps + 1), dtype=np.float64)
        trace_cumulative = np.zeros((batch, max_steps + 1), dtype=np.float64)
        trace_violated = np.zeros((batch, max_steps + 1), dtype=bool)
        lengths = np.zeros(batch, dtype=np.int64)
        terminated_flags = np.zeros(batch, dtype=bool)

        trace_states[:, 0] = starts
        states = starts.copy()
        # Episodes drop out of ``active`` permanently on termination, so the
        # index array only needs rebuilding on steps where someone finished.
        active = np.arange(batch, dtype=np.int64)

        for step in range(1, max_steps + 1):
            if active.size == 0:
                break
            previous = states[active]
            actions = agent.select_actions(active, previous)
            next_idx, rewards, terminated, violated = environment.step_batch(
                actions, active
            )
            agent.update(active, previous, actions, rewards, next_idx, terminated)

            states[active] = next_idx
            trace_states[active, step] = next_idx
            trace_actions[active, step] = actions
            trace_rewards[active, step] = rewards
            trace_cumulative[active, step] = environment.cumulative_rewards[active]
            trace_violated[active, step] = violated
            lengths[active] = step
            if terminated.any():
                terminated_flags[active[terminated]] = True
                active = active[~terminated]

        return [
            self._materialize(
                episode, trace_states, trace_actions, trace_rewards,
                trace_cumulative, trace_violated, int(lengths[episode]),
                bool(terminated_flags[episode]),
            )
            for episode in range(batch)
        ]

    def _materialize(self, episode: int, trace_states: np.ndarray,
                     trace_actions: np.ndarray, trace_rewards: np.ndarray,
                     trace_cumulative: np.ndarray, trace_violated: np.ndarray,
                     length: int, terminated: bool) -> ExplorationResult:
        environment = self._environment
        # One bulk tolist() per trace row: Python scalars from here on, so
        # the record loop does dict lookups and constructor calls only.
        states_row = trace_states[episode, :length + 1].tolist()
        actions_row = trace_actions[episode, :length + 1].tolist()
        rewards_row = trace_rewards[episode, :length + 1].tolist()
        cumulative_row = trace_cumulative[episode, :length + 1].tolist()
        violated_row = trace_violated[episode, :length + 1].tolist()
        point_records = environment.records_map_for(episode)
        pairs = {
            index: (record.point, record.deltas)
            for index, record in point_records.items()
        }
        start_point, start_deltas = pairs[states_row[0]]
        records = [
            StepRecord(
                step=0,
                action=None,
                point=start_point,
                deltas=start_deltas,
                reward=0.0,
                cumulative_reward=0.0,
                is_baseline=True,
            )
        ]
        append = records.append
        # Millions of records are materialised per campaign, so the per-step
        # records bypass the frozen dataclass's guarded __init__ (each field
        # assignment goes through object.__setattr__ there) and fill the
        # instance dict directly — same objects, a fraction of the cost.
        new_record = StepRecord.__new__
        step = 0
        for state, action, reward, cumulative, violated in zip(
                states_row[1:], actions_row[1:], rewards_row[1:],
                cumulative_row[1:], violated_row[1:]):
            step += 1
            point, deltas = pairs[state]
            step_record = new_record(StepRecord)
            fields = step_record.__dict__
            fields["step"] = step
            fields["action"] = action
            fields["point"] = point
            fields["deltas"] = deltas
            fields["reward"] = reward
            fields["cumulative_reward"] = cumulative
            fields["constraint_violated"] = violated
            fields["is_baseline"] = False
            append(step_record)
        evaluator = environment.evaluator_for(episode)
        return ExplorationResult(
            benchmark_name=evaluator.benchmark.name,
            records=records,
            thresholds=environment.thresholds_for(episode),
            precise_cost=evaluator.precise_cost,
            agent_name=self._agent.name,
            terminated=terminated,
            truncated=False,
            metadata={
                "max_steps": self._max_steps,
                "action_scheme": environment.action_scheme,
                "design_space_size": environment.design_space.size,
                "evaluations": environment.evaluations_for(episode),
            },
        )
