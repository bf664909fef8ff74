"""Vectorized tabular agents: many episodes, one dense Q-array.

The serial agents (:class:`~repro.agents.qlearning.QLearningAgent`,
:class:`~repro.agents.sarsa.SarsaAgent`, :class:`~repro.agents.random_agent.
RandomAgent`) drive one episode each through a dict-keyed Q-table.  A
Table-III campaign runs dozens of such episodes with identical
hyperparameters, differing only in their seed — so the batched engine
(:mod:`repro.dse.batched_env`) advances them in lockstep and needs agents
that select and learn for a whole batch per call.

The classes here hold one dense Q-array of shape ``(episodes, states,
actions)`` — states are the design-space enumeration indices of
:meth:`~repro.dse.design_space.DesignSpace.point_at`, exactly what the
default :class:`~repro.agents.base.ConfigurationEncoder` keys densify to —
and apply the Bellman updates as gather/scatter over that array.  Action
selection and SARSA's on-policy bootstrap gather every episode's greedy
row at once; only the RNG draws walk the episodes one by one.

Bit-identity with the serial agents is a hard contract, not an
approximation.  Each episode keeps its own ``np.random.Generator`` seeded
exactly as the serial agent's, and every method call consumes the streams
in the serial order: ``rng.random()`` for the epsilon test, then either
``rng.integers(num_actions)`` (explore) or ``rng.choice(best)`` over the
tied argmax set (exploit).  The deliberate shortcuts are stream-neutral:
``Generator.choice`` over a single-element array returns that element
without advancing the bit generator, and over a larger one draws exactly
``integers(0, n)`` (both asserted in the test suite), so a unique argmax
skips the call and a tie draws ``integers`` directly.  SARSA bootstraps
from a greedy row's maximum, which every tied action holds, and still
makes the tie-break draw.  The per-episode streams stay aligned with the
serial agents bit for bit.  The Q-update itself is evaluated in the
serial expression order (``current + lr * ((reward + discount * future)
- current)``), which makes the float64 results IEEE-identical, not merely
close.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

import numpy as np

from repro.agents.schedules import ConstantEpsilon, EpsilonSchedule
from repro.errors import ConfigurationError

__all__ = [
    "VectorizedAgent",
    "VectorizedQLearningAgent",
    "VectorizedSarsaAgent",
    "VectorizedRandomAgent",
]


def _coerce_epsilon(epsilon: Any) -> EpsilonSchedule:
    if isinstance(epsilon, EpsilonSchedule):
        return epsilon
    return ConstantEpsilon(float(epsilon))


class VectorizedAgent:
    """Common plumbing of the batched tabular agents.

    Parameters
    ----------
    num_actions:
        Size of the (discrete) action space.
    seeds:
        One RNG seed per episode; episode ``i`` draws from
        ``np.random.default_rng(seeds[i])``, the exact generator the serial
        agent for that seed would own.
    """

    name = "agent"

    def __init__(self, num_actions: int, seeds: Sequence[Optional[int]]) -> None:
        if num_actions <= 0:
            raise ConfigurationError(f"num_actions must be positive, got {num_actions}")
        if not seeds:
            raise ConfigurationError("a vectorized agent requires at least one episode seed")
        self.num_actions = int(num_actions)
        self.num_episodes = len(seeds)
        self._rngs: List[np.random.Generator] = [np.random.default_rng(s) for s in seeds]
        # Pre-bound generator methods: the per-episode selection loop is the
        # hot path, and attribute lookups on 256 generators per step add up.
        self._random = [rng.random for rng in self._rngs]
        self._integers = [rng.integers for rng in self._rngs]

    def select_actions(self, active: np.ndarray, states: np.ndarray) -> np.ndarray:
        """Choose one action per active episode (``states`` aligned with ``active``)."""
        raise NotImplementedError

    def update(self, active: np.ndarray, states: np.ndarray, actions: np.ndarray,
               rewards: np.ndarray, next_states: np.ndarray,
               terminated: np.ndarray) -> None:
        """Learn from one batch of transitions (all arrays aligned with ``active``)."""
        raise NotImplementedError


class _VectorizedValueAgent(VectorizedAgent):
    """Shared dense-Q machinery of the epsilon-greedy value agents."""

    def __init__(self, num_actions: int, num_states: int, seeds: Sequence[Optional[int]],
                 learning_rate: float = 0.1, discount: float = 0.9,
                 epsilon: Any = 0.1, max_steps: Optional[int] = None) -> None:
        super().__init__(num_actions, seeds)
        if num_states <= 0:
            raise ConfigurationError(f"num_states must be positive, got {num_states}")
        if not 0.0 < learning_rate <= 1.0:
            raise ConfigurationError(f"learning_rate must be in (0, 1], got {learning_rate}")
        if not 0.0 <= discount <= 1.0:
            raise ConfigurationError(f"discount must be in [0, 1], got {discount}")
        self.num_states = int(num_states)
        self.learning_rate = float(learning_rate)
        self.discount = float(discount)
        self.epsilon_schedule = _coerce_epsilon(epsilon)
        # Epsilon is a pure function of the per-episode step counter; with a
        # known horizon the whole schedule collapses to one array lookup.
        # SARSA reads the schedule one step past the last selection, hence
        # the ``max_steps + 1`` entries.
        self._epsilon_values: Optional[List[float]] = None
        if max_steps is not None:
            self._epsilon_values = [
                self.epsilon_schedule(step) for step in range(int(max_steps) + 1)
            ]
        self._q = np.zeros((self.num_episodes, self.num_states, self.num_actions),
                           dtype=np.float64)
        self._steps = [0] * self.num_episodes

    def _epsilon_at(self, step: int) -> float:
        values = self._epsilon_values
        if values is not None and step < len(values):
            return values[step]
        return self.epsilon_schedule(step)

    @property
    def steps_taken(self) -> List[int]:
        """Per-episode count of actions selected so far (copy)."""
        return list(self._steps)

    def q_array(self) -> np.ndarray:
        """The learned Q-values, shape ``(episodes, states, actions)`` (copy)."""
        return self._q.copy()

    def select_actions(self, active: np.ndarray, states: np.ndarray) -> np.ndarray:
        # One gather resolves every greedy candidate; the per-episode pass
        # then makes the epsilon draw and, to explore or to break a tie,
        # the second draw.
        _, ties, counts = _greedy(self._q[active, states])
        first_best = ties.argmax(axis=1).tolist()
        chosen = []
        steps = self._steps
        epsilon_values = self._epsilon_values
        horizon = -1 if epsilon_values is None else len(epsilon_values)
        random = self._random
        integers = self._integers
        num_actions = self.num_actions
        for slot, episode in enumerate(active.tolist()):
            step = steps[episode]
            steps[episode] = step + 1
            epsilon = (
                epsilon_values[step] if step < horizon else self.epsilon_schedule(step)
            )
            if random[episode]() < epsilon:
                chosen.append(integers[episode](num_actions))
            elif counts[slot] == 1:
                # Unique argmax: the serial agent's rng.choice over a
                # one-element candidate set returns it without touching the
                # stream, so skipping the call is bit-identical.
                chosen.append(first_best[slot])
            else:
                chosen.append(self._tie_break(episode, ties[slot], counts[slot]))
        return np.asarray(chosen, dtype=np.int64)

    def _tie_break(self, episode: int, tied: np.ndarray, count: int) -> int:
        """``rng.choice`` over the tied actions of one episode's greedy row.

        ``Generator.choice`` without weights draws exactly ``integers(0,
        n)`` from the stream; indexing the tied set directly is
        bit-identical and an order of magnitude cheaper than the call.
        """
        return int(tied.nonzero()[0][self._integers[episode](count)])


def _greedy(rows: np.ndarray):
    """Row maxima, the tied-argmax mask and the per-row tie counts."""
    best = rows.max(axis=1, keepdims=True)
    ties = rows == best
    return best[:, 0], ties, ties.sum(axis=1).tolist()


class VectorizedQLearningAgent(_VectorizedValueAgent):
    """Batched epsilon-greedy tabular Q-learning (off-policy).

    The update is fully vectorized: one gather for the next-state rows, one
    max-reduce for the bootstrap values, one scatter for the Bellman step —
    every active episode learns in the same few NumPy operations.
    """

    name = "q-learning"

    def update(self, active: np.ndarray, states: np.ndarray, actions: np.ndarray,
               rewards: np.ndarray, next_states: np.ndarray,
               terminated: np.ndarray) -> None:
        future = np.where(terminated, 0.0, self._q[active, next_states].max(axis=1))
        target = rewards + self.discount * future
        current = self._q[active, states, actions]
        self._q[active, states, actions] = (
            current + self.learning_rate * (target - current)
        )


class VectorizedSarsaAgent(_VectorizedValueAgent):
    """Batched epsilon-greedy tabular SARSA (on-policy).

    The bootstrap action is drawn from each episode's own policy and RNG
    stream.  One gather resolves every greedy row and its ties, a pass
    over the episodes makes the draws in the serial order, and the
    Bellman step lands as one scatter into the shared dense Q-array.
    """

    name = "sarsa"

    def update(self, active: np.ndarray, states: np.ndarray, actions: np.ndarray,
               rewards: np.ndarray, next_states: np.ndarray,
               terminated: np.ndarray) -> None:
        q = self._q
        rows = q[active, next_states]
        # Every tied greedy action holds the row maximum, so the maximum is
        # the greedy bootstrap value; a tied row still makes its tie-break
        # draw, keeping the stream aligned with SarsaAgent._policy_action.
        future, ties, counts = _greedy(rows)
        steps = self._steps
        random = self._random
        integers = self._integers
        epsilon_at = self._epsilon_at
        for slot, (episode, done) in enumerate(zip(active.tolist(), terminated.tolist())):
            if done:
                future[slot] = 0.0
            elif random[episode]() < epsilon_at(steps[episode]):
                future[slot] = rows[slot, integers[episode](self.num_actions)]
            elif counts[slot] > 1:
                self._tie_break(episode, ties[slot], counts[slot])
        target = rewards + self.discount * future
        current = q[active, states, actions]
        q[active, states, actions] = current + self.learning_rate * (target - current)


class VectorizedRandomAgent(VectorizedAgent):
    """Batched uniform-random action baseline (never learns)."""

    name = "random"

    def select_actions(self, active: np.ndarray, states: np.ndarray) -> np.ndarray:
        actions = np.empty(active.size, dtype=np.int64)
        for slot in range(active.size):
            actions[slot] = self._rngs[active[slot]].integers(self.num_actions)
        return actions

    def update(self, active: np.ndarray, states: np.ndarray, actions: np.ndarray,
               rewards: np.ndarray, next_states: np.ndarray,
               terminated: np.ndarray) -> None:
        """Random agents do not learn; the transitions are ignored."""
