"""A minimal, API-compatible subset of the Gymnasium RL toolkit.

The paper implements its exploration environment on top of Gymnasium.  This
package provides the part of that API the reproduction's one environment,
:class:`~repro.dse.environment.AxcDseEnv`, needs — the
:class:`~repro.gymlite.core.Env` base class, its observation/action spaces
and the seeding helper — so the library has no dependency beyond NumPy.

The public names mirror Gymnasium so code written against this package reads
exactly like code written against the real library::

    import repro.gymlite as gym

    class MyEnv(gym.Env):
        ...

    env = MyEnv()
    observation, info = env.reset(seed=0)
    observation, reward, terminated, truncated, info = env.step(action)
"""

from repro.gymlite import spaces
from repro.gymlite.core import Env
from repro.gymlite.seeding import np_random

__all__ = ["Env", "spaces", "np_random"]
