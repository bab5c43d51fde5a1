"""Separability analysis of bipartite quantum states.

Spectral pair-operator tests, partial-transpose cross checks,
constructive single-pair ensembles, and a certified numerical search
for separable decompositions.
"""

from .criterion import *
from .decompose import *
from .linalg import *
from .pairs import *
from .search import *
from .states import *

__version__ = "0.1.0"
