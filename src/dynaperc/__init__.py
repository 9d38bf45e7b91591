"""Random walk on dynamically rewiring percolation environments.

Exact and Monte Carlo tooling for quenched mixing, hitting times, expansion
profiles, evolving-set certificates, and finite Markovian-environment chains.
"""

from .dynenv import DynParams, EnvTrajectory, sample_env
from .errors import (CapabilityError, HorizonError, InputError,
                     UncertifiedProfileError)
from .torus import TorusGraph

__all__ = [
    "TorusGraph", "DynParams", "EnvTrajectory", "sample_env",
    "InputError", "CapabilityError", "HorizonError", "UncertifiedProfileError",
]

__version__ = "0.1.0"
