"""Damped spin-1/2 relaxation maps with memory, and their information flow.

Closed-form damping maps for the convolution and dressed-kernel master
equations of a qubit in a thermal bath, two independent integration oracles,
time-local rate extraction, Choi/positivity/divisibility analysis, and the
trace-distance non-Markovianity measure.

The public names are those of each layer's ``__all__``.  ``spinflow.measure``
is the function ``measure``; its layer is ``sys.modules["spinflow.measure"]``.
"""

__version__ = "0.1.0"

import importlib as _importlib
import os as _os
import sys as _sys

# The largest matrix multiplied here is a 12 x 12 quadrature propagator, far
# below the size at which OpenBLAS splits work across threads, yet its worker
# pool busy-waits after numpy loads and doubles a short run's CPU time.  So
# numpy loads with one BLAS thread, unless the caller has chosen a count or
# loaded numpy already; OpenBLAS reads the variable once, as it loads, and the
# environment is restored for the caller and its child processes.
if "numpy" not in _sys.modules and "OPENBLAS_NUM_THREADS" not in _os.environ:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        _importlib.import_module("numpy")
    finally:
        del _os.environ["OPENBLAS_NUM_THREADS"]

from . import analysis as _analysis, maps as _maps, measure as _measure
from . import states as _states, volterra as _volterra
from .states import *  # noqa: F403
from .maps import *  # noqa: F403
from .volterra import *  # noqa: F403
from .analysis import *  # noqa: F403
from .measure import *  # noqa: F403

_LAYERS = (_states, _maps, _volterra, _analysis, _measure)
__all__ = ["__version__", *(name for layer in _LAYERS for name in layer.__all__)]
