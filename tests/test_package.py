import inspect
import sys

import spinflow
from spinflow import analysis, maps, states, volterra

# the layers whose __all__ the package re-exports; spinflow.measure is the
# function, so its layer is looked up by module name
LAYERS = (states, maps, volterra, analysis, sys.modules["spinflow.measure"])


def test_package_exports_each_layers_public_names():
    assert len(spinflow.__all__) == len(set(spinflow.__all__))
    assert set(spinflow.__all__) == {"__version__"}.union(*(layer.__all__ for layer in LAYERS))
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(spinflow, name) is getattr(layer, name), name
    assert spinflow.__version__
    assert inspect.isfunction(spinflow.measure)
    assert spinflow.measure is LAYERS[-1].measure
