"""Recoloring connectivity toolkit for k-uniform hypergraphs.

Build proper colorings, peel cores, draw maximally independent sequences,
construct explicit single-vertex recoloring paths between colorings, and
cross-check everything against a brute-force oracle at small scale.

Each library module's ``__all__`` is its public surface; the package
re-exports all of them, so a public name is declared once, where it is
defined.
"""

from . import (core_peel, errors, experiments, gamma_oracle, hypergraph,
               independence, reconfig, seeding)
from .errors import *
from .seeding import *
from .hypergraph import *
from .core_peel import *
from .independence import *
from .reconfig import *
from .gamma_oracle import *
from .experiments import *

__version__ = "0.1.0"

__all__ = [name for module in (errors, seeding, hypergraph, core_peel,
                               independence, reconfig, gamma_oracle,
                               experiments)
           for name in module.__all__]
