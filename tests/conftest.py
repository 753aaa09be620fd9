"""Shared helpers for the test suite."""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from chanleak import Channel, maximal_alpha_beta_leakage

# property tests replay the same examples on every run and keep no example
# database; what hypothesis still writes (a cache of the test modules'
# constants, the patch of a failing example) goes to the system's temporary
# directory, not to .hypothesis in the working one
settings.register_profile("chanleak", derandomize=True, database=None, deadline=None)
settings.load_profile("chanleak")
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "chanleak-hypothesis")


def bsc(p: float) -> Channel:
    """Binary symmetric channel with crossover probability p."""
    return Channel(np.array([[1.0 - p, p], [p, 1.0 - p]]))


def random_channel(rng: np.random.Generator, n_inputs: int, n_outputs: int) -> Channel:
    """Full-support channel with Dirichlet(1) rows."""
    return Channel(rng.dirichlet(np.ones(n_outputs), size=n_inputs))


def family(channel: Channel, order, config=None) -> float:
    """The family value in nats, in the form the checks of chanleak.properties read."""
    return maximal_alpha_beta_leakage(channel, order, config).value.nats
