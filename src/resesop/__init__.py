"""Sequential subspace optimization for nonlinear inverse problems in Lp spaces."""

import logging

from . import bregman_geometry, elliptic_operator, experiment_cli, lp_spaces, sesop_solver
from .bregman_geometry import *  # noqa: F401,F403
from .elliptic_operator import *  # noqa: F401,F403
from .experiment_cli import *  # noqa: F401,F403
from .lp_spaces import *  # noqa: F401,F403
from .sesop_solver import *  # noqa: F401,F403

# Each module's __all__ is the one list of its public names.
__all__ = [name for module in (bregman_geometry, elliptic_operator, experiment_cli,
                               lp_spaces, sesop_solver)
           for name in module.__all__]

__version__ = '0.1.0'

# Quiet by default: records reach a handler only where the application
# configured logging (they still propagate to the root logger).
logging.getLogger(__name__).addHandler(logging.NullHandler())
