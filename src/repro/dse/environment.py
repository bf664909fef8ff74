"""The RL environment of the paper (Figure 1 / Equation 1).

At every step the environment holds the current approximated version of the
benchmark (a :class:`~repro.dse.design_space.DesignPoint`), applies the
agent's action to move to a neighbouring version, executes that version and
returns the new observation — the configuration plus (Δacc, Δpower, Δtime) —
together with the Algorithm-1 reward.  The episode terminates when the
cumulative reward reaches the configured maximum or when Algorithm 1 raises
its ``terminate`` flag.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro import gymlite
from repro.benchmarks.base import Benchmark
from repro.dse.design_space import DesignPoint, DesignSpace
from repro.dse.evaluator import EvaluationRecord, Evaluator
from repro.dse.reward import Algorithm1Reward, RewardFunction, RewardOutcome
from repro.dse.thresholds import ExplorationThresholds, derive_thresholds
from repro.errors import ConfigurationError, InvalidAction, ResetNeeded
from repro.gymlite import spaces
from repro.operators.catalog import OperatorCatalog
from repro.runtime.store import EvaluationStore

__all__ = ["AxcDseEnv", "ACTION_SCHEMES"]

#: Supported action encodings (see :meth:`AxcDseEnv._apply_action`).
ACTION_SCHEMES = ("directional", "compact")


class AxcDseEnv(gymlite.Env):
    """Gym-style environment exploring approximate versions of a benchmark.

    Parameters
    ----------
    benchmark:
        The application to approximate.
    catalog:
        Operator catalog (defaults to the paper's Tables I & II).
    evaluation_seed:
        Seed of the fixed workload every design point is evaluated on.
    max_cumulative_reward:
        The maximum cumulative reward; reaching it stops the exploration
        (the paper's stopping rule).  Also used as ``R`` in Algorithm 1
        unless a custom ``reward_function`` is supplied.
    reward_function:
        Reward rule; defaults to Algorithm 1 with ``R = max_cumulative_reward``.
    thresholds:
        Constraint levels; derived from the precise run (50 % power/time,
        0.4 x mean output) when omitted.
    action_scheme:
        ``"directional"`` exposes ``4 + N_vars`` actions (adder up/down,
        multiplier up/down, toggle variable *i*); ``"compact"`` exposes the
        paper's three action kinds, with the direction / variable chosen
        uniformly at random by the environment.
    accuracy_factor, power_fraction, time_fraction:
        Threshold derivation parameters (only used when ``thresholds`` is
        omitted).
    store:
        Optional shared :class:`~repro.runtime.store.EvaluationStore` the
        evaluator caches into (and warm-starts from).
    """

    metadata = {"render_modes": ["ansi"]}

    def __init__(self, benchmark: Benchmark, catalog: Optional[OperatorCatalog] = None,
                 evaluation_seed: int = 0, max_cumulative_reward: float = 100.0,
                 reward_function: Optional[RewardFunction] = None,
                 thresholds: Optional[ExplorationThresholds] = None,
                 action_scheme: str = "directional", accuracy_factor: float = 0.4,
                 power_fraction: float = 0.5, time_fraction: float = 0.5,
                 signed_accuracy: bool = False,
                 restrict_to_benchmark_widths: bool = True,
                 store: Optional[EvaluationStore] = None) -> None:
        if action_scheme not in ACTION_SCHEMES:
            raise ConfigurationError(
                f"action_scheme must be one of {ACTION_SCHEMES}, got {action_scheme!r}"
            )
        if max_cumulative_reward <= 0:
            raise ConfigurationError(
                f"max_cumulative_reward must be positive, got {max_cumulative_reward}"
            )

        self._evaluator = Evaluator(benchmark, catalog, seed=evaluation_seed,
                                    signed_accuracy=signed_accuracy,
                                    restrict_to_benchmark_widths=restrict_to_benchmark_widths,
                                    store=store)
        self._space = self._evaluator.design_space
        self._max_cumulative_reward = float(max_cumulative_reward)
        self._reward_function = reward_function or Algorithm1Reward(
            max_reward=max_cumulative_reward
        )
        if thresholds is None:
            thresholds = derive_thresholds(
                self._evaluator.precise_outputs,
                self._evaluator.precise_cost.power_mw,
                self._evaluator.precise_cost.time_ns,
                accuracy_factor=accuracy_factor,
                power_fraction=power_fraction,
                time_fraction=time_fraction,
            )
        self._thresholds = thresholds
        self._action_scheme = action_scheme

        self.observation_space = spaces.Dict(
            {
                "adder": spaces.Discrete(self._space.num_adders, start=1),
                "multiplier": spaces.Discrete(self._space.num_multipliers, start=1),
                "variables": spaces.MultiBinary(self._space.num_variables),
                "deltas": spaces.Box(low=-np.inf, high=np.inf, shape=(3,), dtype=np.float64),
            }
        )
        self.action_space = spaces.Discrete(self._num_actions())

        self._point: Optional[DesignPoint] = None
        self._cumulative_reward = 0.0
        self._last_record: Optional[EvaluationRecord] = None

    # ------------------------------------------------------------ properties

    @property
    def evaluator(self) -> Evaluator:
        """The evaluator (exposes the precise baseline and the workload)."""
        return self._evaluator

    @property
    def design_space(self) -> DesignSpace:
        return self._space

    @property
    def thresholds(self) -> ExplorationThresholds:
        return self._thresholds

    @property
    def cumulative_reward(self) -> float:
        """The accumulated reward of the current episode."""
        return self._cumulative_reward

    @property
    def current_point(self) -> Optional[DesignPoint]:
        """The design point the environment currently sits at."""
        return self._point

    @property
    def action_scheme(self) -> str:
        return self._action_scheme

    def _num_actions(self) -> int:
        if self._action_scheme == "directional":
            return 4 + self._space.num_variables
        return 3

    # ------------------------------------------------------------- gym API

    def reset(self, *, seed: Optional[int] = None,
              options: Optional[Dict[str, Any]] = None) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        super().reset(seed=seed)
        options = options or {}
        start_point = options.get("design_point")
        if start_point is None:
            if options.get("random_start", False):
                start_point = self._space.random_point(self.np_random)
            else:
                start_point = self._space.initial_point()
        self._point = self._space.validate(start_point)
        self._cumulative_reward = 0.0
        self._last_record = self._evaluator.evaluate(self._point)
        return self._observation(), self._info(RewardOutcome(reward=0.0))

    def step(self, action: int) -> Tuple[Dict[str, Any], float, bool, bool, Dict[str, Any]]:
        if self._point is None:
            raise ResetNeeded("call reset() before step()")
        if not self.action_space.contains(action):
            raise InvalidAction(f"action {action!r} is outside {self.action_space}")

        self._point = self._apply_action(int(action))
        self._last_record = self._evaluator.evaluate(self._point)
        outcome = self._reward_function(
            self._point, self._last_record.deltas, self._thresholds, self._space
        )
        self._cumulative_reward += outcome.reward

        terminated = outcome.terminate or self._cumulative_reward >= self._max_cumulative_reward
        return self._observation(), outcome.reward, terminated, False, self._info(outcome)

    def render(self) -> str:
        if self._point is None or self._last_record is None:
            return "<AxcDseEnv: not reset>"
        return (
            f"point={self._point} {self._last_record.deltas} "
            f"cumulative_reward={self._cumulative_reward:.1f}"
        )

    # ----------------------------------------------------------- transitions

    def _apply_action(self, action: int) -> DesignPoint:
        if self._action_scheme == "directional":
            return self._apply_directional(action)
        return self._apply_compact(action)

    def _apply_directional(self, action: int) -> DesignPoint:
        point = self._point
        if action == 0:
            return point.with_adder(min(point.adder_index + 1, self._space.num_adders))
        if action == 1:
            return point.with_adder(max(point.adder_index - 1, 1))
        if action == 2:
            return point.with_multiplier(
                min(point.multiplier_index + 1, self._space.num_multipliers)
            )
        if action == 3:
            return point.with_multiplier(max(point.multiplier_index - 1, 1))
        return point.with_variable_toggled(action - 4)

    def _apply_compact(self, action: int) -> DesignPoint:
        point = self._point
        direction = 1 if self.np_random.random() < 0.5 else -1
        if action == 0:
            index = int(np.clip(point.adder_index + direction, 1, self._space.num_adders))
            return point.with_adder(index)
        if action == 1:
            index = int(np.clip(point.multiplier_index + direction, 1,
                                self._space.num_multipliers))
            return point.with_multiplier(index)
        position = int(self.np_random.integers(0, self._space.num_variables))
        return point.with_variable_toggled(position)

    # ----------------------------------------------------------- observation

    def _observation(self) -> "OrderedDict[str, Any]":
        deltas = self._last_record.deltas
        return OrderedDict(
            [
                ("adder", self._point.adder_index),
                ("multiplier", self._point.multiplier_index),
                ("variables", self._point.variable_mask()),
                ("deltas", np.array([deltas.accuracy, deltas.power_mw, deltas.time_ns],
                                    dtype=np.float64)),
            ]
        )

    def _info(self, outcome: RewardOutcome) -> Dict[str, Any]:
        return {
            "design_point": self._point,
            "deltas": self._last_record.deltas,
            "cumulative_reward": self._cumulative_reward,
            "terminate_flag": outcome.terminate,
            "constraint_violated": outcome.constraint_violated,
            "thresholds": self._thresholds,
        }

