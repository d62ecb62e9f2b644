"""Departure-time platoon matching as a finite exact potential game.

Trucks share an origin on a directed-tree road network, pick departure
times, and platoon with whoever departs at the same moment.  The package
models the strategic (per-vehicle utility) and cooperative (summed
utility) variants, finds pure Nash equilibria by best-response sweeps,
verifies them against a brute-force oracle, and runs Monte-Carlo sweeps
over the spread of preferred departure times.
"""

from .network import *
from .game import *
from .solvers import *
from .experiments import *

__version__ = "0.1.0"

__all__ = network.__all__ + game.__all__ + solvers.__all__ + experiments.__all__ + ["__version__"]
