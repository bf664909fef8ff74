"""Vectorized tabular agents: many episodes, one loop over plain lists.

The serial agents (:class:`~repro.agents.qlearning.QLearningAgent`,
:class:`~repro.agents.sarsa.SarsaAgent`, :class:`~repro.agents.random_agent.
RandomAgent`) drive one episode each through a dict-keyed Q-table.  A
Table-III campaign runs dozens of such episodes with identical
hyperparameters, differing only in their seed — so the batched engine
(:mod:`repro.dse.batched_env`) advances them in lockstep and needs agents
that select and learn for a whole batch per call.

A batch is a handful of episodes with a few hundred states each, far too
small for NumPy's per-call overhead to pay off, so the classes here work
on plain lists: each episode owns one Q-row list of floats per design
point (states are the design-space enumeration indices of
:meth:`~repro.dse.design_space.DesignSpace.point_at`, exactly what the
serial agents' ``(adder, multiplier, variables)`` keys densify to), and
``select_actions``/``update`` are one Python loop over the active
episodes with ``max``, ``list.count`` and ``list.index`` for the greedy
row.

Bit-identity with the serial agents is a hard contract, not an
approximation.  Each episode draws from ``np.random.default_rng(seed)``'s
own PCG64 bit generator, the one the serial agent for that seed owns, but
through :class:`_WordStream`: raw 64-bit words pulled in bulk and turned
into exactly the values ``Generator.random()`` and ``Generator.integers(n)``
return, with no ``Generator`` call per step.  Every method consumes the
stream in the serial order: ``random()`` for the epsilon test, then either
``integers(num_actions)`` (explore) or the ``rng.choice(best)`` over the
tied argmax set (exploit).  The deliberate shortcuts are stream-neutral:
``Generator.choice`` over a single-element array returns that element
without advancing the bit generator, and over a larger one draws exactly
``integers(0, n)`` (both asserted in the test suite), so a unique argmax
skips the draw and a tie draws ``integers`` directly.  SARSA bootstraps
from a greedy row's maximum, which every tied action holds, and still
makes the tie-break draw.  ``max`` and ``list.count`` give the tied set of
``values == values.max()`` and the tied actions come in ascending order,
as from ``np.flatnonzero``.  The Q-update is evaluated in the serial
expression order (``current + lr * ((reward + discount * future) -
current)``) on float64 values, which makes the results IEEE-identical, not
merely close.
"""

from __future__ import annotations

from array import array
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

#: Raw words fetched per refill: 16 KiB per episode as an ``array('Q')``.
_BLOCK_WORDS = 2048
_UNIT = 2.0 ** -53
_LOW32 = 0xFFFFFFFF
_TWO32 = 1 << 32


class _WordStream:
    """``Generator.random()`` and ``Generator.integers(n)``, drawn in bulk.

    Wraps the PCG64 bit generator of ``np.random.default_rng(seed)`` and
    pulls its raw 64-bit words ``_BLOCK_WORDS`` at a time with
    ``random_raw``; the values match the ``Generator`` calls on a fresh
    generator of the same seed call for call, across refills:

    * ``random()`` is ``(word >> 11) * 2**-53``, as NumPy's ``next_double``;
    * ``integers(n)`` for ``1 <= n < 2**32`` is NumPy's Lemire rejection on
      32-bit draws.  A 32-bit draw takes the low half of a fresh word and
      keeps the high half for the next 32-bit draw (PCG64's
      ``has_uint32``); a 64-bit draw leaves a kept half alone; ``n == 1``
      draws nothing.
    """

    __slots__ = ("_bit_generator", "_next_word", "_kept")

    def __init__(self, seed: Optional[int]) -> None:
        self._bit_generator = np.random.default_rng(seed).bit_generator
        self._next_word = iter(()).__next__
        self._kept: Optional[int] = None

    def _refill(self) -> int:
        """Fetch the next block of words; returns its first word."""
        block = array("Q", self._bit_generator.random_raw(_BLOCK_WORDS).tobytes())
        self._next_word = iter(block).__next__
        return self._next_word()

    def random(self) -> float:
        try:
            word = self._next_word()
        except StopIteration:
            word = self._refill()
        return (word >> 11) * _UNIT

    def integers(self, n: int) -> int:
        if n == 1:
            return 0
        threshold = _TWO32 % n
        while True:
            kept = self._kept
            if kept is None:
                try:
                    word = self._next_word()
                except StopIteration:
                    word = self._refill()
                self._kept = word >> 32
                draw = word & _LOW32
            else:
                self._kept = None
                draw = kept
            product = draw * n
            if product & _LOW32 >= threshold:
                return product >> 32


def _coerce_epsilon(epsilon: Any) -> EpsilonSchedule:
    if isinstance(epsilon, EpsilonSchedule):
        return epsilon
    return ConstantEpsilon(float(epsilon))


class VectorizedAgent:
    """Common plumbing of the batched tabular agents.

    ``select_actions`` and ``update`` take lists aligned with ``active``,
    the episodes still running, and ``select_actions`` returns one.

    Parameters
    ----------
    num_actions:
        Size of the (discrete) action space.
    seeds:
        One RNG seed per episode; episode ``i`` draws the values of
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
        self._streams = [_WordStream(seed) for seed in seeds]

    def select_actions(self, active: List[int], states: List[int]) -> List[int]:
        """Choose one action per active episode (``states`` aligned with ``active``)."""
        raise NotImplementedError

    def update(self, active: List[int], states: List[int], actions: List[int],
               rewards: List[float], next_states: List[int],
               terminated: List[bool]) -> None:
        """Learn from one batch of transitions (all lists aligned with ``active``)."""
        raise NotImplementedError


class _VectorizedValueAgent(VectorizedAgent):
    """Shared Q-row machinery of the epsilon-greedy value agents."""

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
        # known horizon the whole schedule collapses to one list lookup.
        # SARSA reads the schedule one step past the last selection, hence
        # the ``max_steps + 1`` entries.
        self._epsilon_values: Optional[List[float]] = None
        if max_steps is not None:
            self._epsilon_values = self.epsilon_schedule.table(int(max_steps) + 1)
        # Episode -> state -> one float per action.
        self._q = [
            [[0.0] * self.num_actions for _ in range(self.num_states)]
            for _ in range(self.num_episodes)
        ]
        self._steps = [0] * self.num_episodes

    @property
    def steps_taken(self) -> List[int]:
        """Per-episode count of actions selected so far (copy)."""
        return list(self._steps)

    def select_actions(self, active: List[int], states: List[int]) -> List[int]:
        q = self._q
        streams = self._streams
        steps = self._steps
        epsilon_values = self._epsilon_values or []
        horizon = len(epsilon_values)
        num_actions = self.num_actions
        chosen = []
        for episode, state in zip(active, states):
            step = steps[episode]
            steps[episode] = step + 1
            epsilon = epsilon_values[step] if step < horizon else self.epsilon_schedule(step)
            stream = streams[episode]
            if stream.random() < epsilon:
                chosen.append(stream.integers(num_actions))
                continue
            row = q[episode][state]
            best = max(row)
            count = row.count(best)
            if count == 1:
                # Unique argmax: the serial agent's rng.choice over a
                # one-element candidate set returns it without touching the
                # stream, so skipping the draw is bit-identical.
                chosen.append(row.index(best))
            else:
                tied = [action for action, value in enumerate(row) if value == best]
                chosen.append(tied[stream.integers(count)])
        return chosen


class VectorizedQLearningAgent(_VectorizedValueAgent):
    """Batched epsilon-greedy tabular Q-learning (off-policy)."""

    name = "q-learning"

    def update(self, active: List[int], states: List[int], actions: List[int],
               rewards: List[float], next_states: List[int],
               terminated: List[bool]) -> None:
        q = self._q
        learning_rate = self.learning_rate
        discount = self.discount
        for episode, state, action, reward, next_state, done in zip(
                active, states, actions, rewards, next_states, terminated):
            rows = q[episode]
            future = 0.0 if done else max(rows[next_state])
            row = rows[state]
            current = row[action]
            row[action] = current + learning_rate * ((reward + discount * future) - current)


class VectorizedSarsaAgent(_VectorizedValueAgent):
    """Batched epsilon-greedy tabular SARSA (on-policy).

    The bootstrap action is drawn from each episode's own policy and
    stream, in the order ``SarsaAgent._policy_action`` draws it.
    """

    name = "sarsa"

    def update(self, active: List[int], states: List[int], actions: List[int],
               rewards: List[float], next_states: List[int],
               terminated: List[bool]) -> None:
        q = self._q
        streams = self._streams
        steps = self._steps
        epsilon_values = self._epsilon_values or []
        horizon = len(epsilon_values)
        num_actions = self.num_actions
        learning_rate = self.learning_rate
        discount = self.discount
        for episode, state, action, reward, next_state, done in zip(
                active, states, actions, rewards, next_states, terminated):
            rows = q[episode]
            if done:
                future = 0.0
            else:
                step = steps[episode]
                epsilon = (
                    epsilon_values[step] if step < horizon else self.epsilon_schedule(step)
                )
                stream = streams[episode]
                next_row = rows[next_state]
                if stream.random() < epsilon:
                    future = next_row[stream.integers(num_actions)]
                else:
                    # Every tied greedy action holds the row maximum, so the
                    # maximum is the bootstrap value; a tied row still makes
                    # its tie-break draw to keep the stream aligned.
                    future = max(next_row)
                    count = next_row.count(future)
                    if count > 1:
                        stream.integers(count)
            row = rows[state]
            current = row[action]
            row[action] = current + learning_rate * ((reward + discount * future) - current)


class VectorizedRandomAgent(VectorizedAgent):
    """Batched uniform-random action baseline (never learns)."""

    name = "random"

    def select_actions(self, active: List[int], states: List[int]) -> List[int]:
        streams = self._streams
        num_actions = self.num_actions
        return [streams[episode].integers(num_actions) for episode in active]

    def update(self, active: List[int], states: List[int], actions: List[int],
               rewards: List[float], next_states: List[int],
               terminated: List[bool]) -> None:
        """Random agents do not learn; the transitions are ignored."""
